//! The traced run (`--trace 1`): the same generated stream replayed
//! in-process, with spans around the calls this crate makes into each
//! layer's public functions and counters at the same boundaries.
//!
//! Three servers are built from the same population:
//!
//! * `plain` replays the stream through the program's own request
//!   path — decode, `MetadataServer::handle` (whose reads fan out over
//!   the thread pool), encode — without spans, interleaved request by
//!   request with the traced pass: the untraced total that
//!   `trace.coverage` and `trace.overhead_pct` divide by. Afterwards it
//!   serves the socket leg of `net.overhead_us`.
//! * `served` replays it with spans on a sequential composition of the
//!   same public calls — decode, per-shard `query_shard`,
//!   `merge_responses` or `apply`, encode — checked equal to
//!   `serve_read`. Summed self times exceed the program's wall time
//!   where its shards run in parallel, and fall short of it by the time
//!   the program spends outside these calls. Tree and unit probes run
//!   on its shards after each read, outside the request span.
//! * the *mirror*: per-shard systems and stores the benchmark owns,
//!   built step by step (partition → grouping → snapshot, the set-up
//!   layers) on a counting filesystem. Each write is applied to it
//!   through `try_apply_change_journaled` with `PersistentStore::append`
//!   as the journal, so the smartstore and persist layers get spans of
//!   their own. It is checked equal to `served` before and after.

use crate::checks;
use crate::client::{self, Conns};
use crate::e2e::RunOpts;
use crate::host;
use crate::metrics::{mean, median, quantile, Kind, Outcome, Values};
use crate::spans::Tracer;
use crate::spec::{Spec, Stream};
use crate::vfs::CountingVfs;
use smartstore::grouping::partition_tiled_flat;
use smartstore::SmartStoreSystem;
use smartstore_net::{NetServer, NetServerConfig};
use smartstore_persist::{CompactionOutcome, PersistentStore, SystemPersist, Vfs};
use smartstore_service::codec::{decode_request, encode_request, encode_response};
use smartstore_service::protocol::merge_responses;
use smartstore_service::{MetadataServer, Request, Response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Request id of the set-up spans.
const SETUP: u32 = u32::MAX;

/// Spans on the request path, whose self times `trace.coverage` sums.
const REQUEST_LAYERS: &[&str] = &[
    "service.decode",
    "service.query_shard",
    "service.merge",
    "service.apply",
    "service.encode",
];

/// Reads sampled for `net.overhead_us`.
const NET_SAMPLE: usize = 2_000;

type Mirror = Vec<(SmartStoreSystem, PersistentStore)>;

fn shard_dir(base: &Path, i: usize) -> PathBuf {
    base.join(format!("shard-{i}"))
}

/// Builds the mirror step by step, one span per set-up layer, the way
/// `MetadataServer::build` does.
fn build_mirror(t: &mut Tracer, spec: &Spec, seed: u64, dir: &Path, vfs: &Arc<dyn Vfs>) -> Mirror {
    let cfg = spec.server_config(dir);
    let pop = t.span("setup.population", |_| spec.population(seed));
    let dims = &cfg.cfg.grouping_dims;
    let assignment = t.span("setup.partition", |_| {
        let table = smartstore_trace::attr_subset_table(&pop.files, dims);
        partition_tiled_flat(&table, dims.len(), cfg.n_shards, cfg.cfg.lsi_rank)
    });
    let mut buckets = vec![Vec::new(); cfg.n_shards];
    for (f, &a) in pop.files.into_iter().zip(&assignment) {
        buckets[a].push(f);
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(i, bucket)| {
            let shard_seed = cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut sys = t.span("setup.grouping", |_| {
                SmartStoreSystem::build(bucket, cfg.units_per_shard, cfg.cfg.clone(), shard_seed)
            });
            let (store, _) = t.span("setup.snapshot", |_| {
                sys.save_snapshot_with(Arc::clone(vfs), &shard_dir(dir, i))
                    .expect("mirror snapshot")
            });
            (sys, store)
        })
        .collect()
}

fn assert_mirror_matches(mirror: &Mirror, served: &MetadataServer, when: &str) {
    assert_eq!(mirror.len(), served.n_shards(), "{when}: shard count");
    for (i, (sys, _)) in mirror.iter().enumerate() {
        assert!(
            sys.current_files() == served.shard(i).current_files(),
            "{when}: mirror shard {i} differs from the served shard"
        );
    }
}

/// The traced request path, composed from public calls: decode, then
/// `apply` or per-shard `query_shard` + `merge_responses`, then encode,
/// one span each.
fn serve_traced(server: &mut MetadataServer, wire: &[u8], t: &mut Tracer) -> (Response, Vec<u8>) {
    let req = t.span("service.decode", |_| {
        decode_request(wire).expect("request decodes")
    });
    let resp = match req {
        Request::ApplyChange { change } => t.span("service.apply", |_| server.apply(change)),
        read => {
            let replies: Vec<Response> = (0..server.n_shards())
                .map(|i| t.span("service.query_shard", |_| server.query_shard(i, &read)))
                .collect();
            t.span("service.merge", |_| merge_responses(&read, replies))
        }
    };
    let bytes = t.span("service.encode", |_| encode_response(&resp));
    (resp, bytes)
}

/// Counters of the tree/unit probes.
#[derive(Debug, Default)]
struct Probe {
    points: u64,
    filters_probed: u64,
    units_per_point: u64,
    point_hits: u64,
    ranges: u64,
    units_per_range: u64,
    records: u64,
    range_results: u64,
    topks: u64,
    topk_units: u64,
}

/// Tree and unit probes for one read on one shard.
fn probe_read(t: &mut Tracer, sys: &SmartStoreSystem, req: &Request, hit: bool, p: &mut Probe) {
    match req {
        Request::Point { name } => {
            let route = t.span("tree.route_point", |_| sys.tree().route_point(name));
            p.filters_probed += route.filters_probed as u64;
            p.units_per_point += route.target_units.len() as u64;
            for &u in &route.target_units {
                let (found, _) = t.span("unit.point_scan", |_| sys.units()[u].point_query(name));
                p.point_hits += u64::from(found.is_some());
            }
            let name_tag = if hit {
                "smartstore.point_hit"
            } else {
                "smartstore.point_miss"
            };
            black_box(t.span(name_tag, |_| sys.query().point(name)));
        }
        Request::Range { lo, hi, .. } => {
            let route = t.span("tree.route_range", |_| sys.tree().route_range(lo, hi));
            p.units_per_range += route.target_units.len() as u64;
            for &u in &route.target_units {
                let (_, work) = t.span("unit.range_scan", |_| sys.units()[u].range_query(lo, hi));
                p.records += work.records as u64;
            }
        }
        Request::TopK { point, opts } => {
            let k = opts.k;
            let (order, _) = t.span("tree.route_topk", |_| sys.tree().route_topk(point));
            // The MaxD walk of §3.3.2, for per-unit spans: stop once a
            // unit's lower bound exceeds the current k-th best distance.
            let mut best: Vec<(u64, f64)> = Vec::with_capacity(2 * k);
            let mut walked = 0;
            for &(u, lower_bound) in &order {
                if best.len() == k && lower_bound > best[k - 1].1 {
                    break;
                }
                let (top, _) = t.span("unit.topk_scan", |_| sys.units()[u].topk_query(point, k));
                walked += 1;
                best.extend(top);
                best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                best.truncate(k);
            }
            // The count is the program's own; the walk must match it,
            // or its spans would time units the program never scans.
            let probed = sys.query().topk(point, opts).cost.units_probed;
            assert_eq!(
                walked, probed,
                "the traced top-k walk must visit the units the query engine probes"
            );
            p.topk_units += probed as u64;
        }
        Request::Stats | Request::ApplyChange { .. } => {}
    }
}

/// Runs one traced replay of `spec`.
pub fn run(spec: &Spec, opts: &RunOpts) -> Outcome {
    let mut values = Values::default();
    let work = &opts.work_dir;
    let _ = std::fs::remove_dir_all(work);
    let (vfs, io) = CountingVfs::real();
    let mut t = Tracer::new();
    t.set_request(SETUP);
    let mirror_dir = work.join("mirror");
    let mut mirror = build_mirror(&mut t, spec, opts.seed, &mirror_dir, &vfs);
    for (name, metric) in [
        ("setup.population", "setup.population_ms"),
        ("setup.partition", "setup.partition_ms"),
        ("setup.grouping", "setup.grouping_ms"),
        ("setup.snapshot", "setup.snapshot_ms"),
    ] {
        let d = t.durations_us(name);
        values.set(metric, d.iter().sum::<f64>() / 1e3, d.len() as u64);
    }

    let pop = spec.population(opts.seed);
    let stream = Stream::generate(spec, &pop, opts.seed, opts.seconds);
    let build = |dir: &Path| {
        MetadataServer::build(pop.files.clone(), &spec.server_config(dir)).expect("server builds")
    };
    let mut plain = build(&work.join("plain"));
    let mut served = build(&work.join("served"));
    drop(pop);
    assert_mirror_matches(&mirror, &served, "after set-up");

    // Bloom fill of the served shards' filters, root and first level.
    let mut root_fill = Vec::new();
    let mut level1_fill = Vec::new();
    for i in 0..served.n_shards() {
        let tree = served.shard(i).tree();
        root_fill.push(tree.node(tree.root()).bloom.fill_ratio());
        if tree.height() >= 1 {
            for n in tree.index_units_at_level(1) {
                level1_fill.push(tree.node(n).bloom.fill_ratio());
            }
        }
    }
    values.set("bloom.root_fill", mean(&root_fill), root_fill.len() as u64);
    values.set(
        "bloom.level1_fill",
        mean(&level1_fill),
        level1_fill.len() as u64,
    );

    let replay: Vec<Request> = stream
        .parity
        .iter()
        .chain(&stream.open)
        .chain(&stream.writes)
        .cloned()
        .collect();
    let wires: Vec<Vec<u8>> = replay.iter().map(encode_request).collect();

    // The untraced and traced passes run interleaved, request by
    // request, so both see the same cache and frequency conditions.
    let mut untraced_ns = 0.0;
    let io0 = io.snapshot();
    let mut probe = Probe::default();
    let mut failed = 0u64;
    let mut changes = 0u64;
    let (mut deltas, mut fulls) = (0u64, 0u64);
    let mut resp_bytes = Vec::new();
    for (id, (req, wire)) in replay.iter().zip(&wires).enumerate() {
        let mut untraced = |plain: &mut MetadataServer| {
            let t0 = crate::now();
            let req = decode_request(wire).expect("request decodes");
            black_box(encode_response(&plain.handle(&req)));
            untraced_ns += crate::nanos_since(t0) as f64;
        };
        // Alternate which pass goes first, so neither always runs warm.
        if id % 2 == 0 {
            untraced(&mut plain);
        }
        t.set_request(id as u32);
        let target = served.route(req).first().copied();
        let (resp, bytes) = t.span("request", |t| serve_traced(&mut served, wire, t));
        if id % 2 == 1 {
            untraced(&mut plain);
        }
        if matches!(
            resp,
            Response::Error(_) | Response::Unavailable(_) | Response::Overloaded(_)
        ) {
            failed += 1;
        }
        match req {
            Request::ApplyChange { change } => {
                let Some(shard) = target else { continue };
                changes += 1;
                let (sys, store) = &mut mirror[shard];
                t.span("smartstore.apply", |t| {
                    sys.try_apply_change_journaled(change.clone(), |group, ch| {
                        t.span("persist.append", |_| store.append(group, ch).map(|_| ()))
                    })
                })
                .expect("mirror journal append");
                if store.should_compact() {
                    match t.span("persist.compact", |_| store.compact_incremental(sys)) {
                        Ok(CompactionOutcome::Delta(_)) => deltas += 1,
                        Ok(CompactionOutcome::Full(_)) => fulls += 1,
                        Err(e) => panic!("mirror compaction failed: {e}"),
                    }
                }
            }
            read => {
                resp_bytes.push(bytes.len() as f64);
                let whole = t.span("service.serve_read", |_| served.serve_read(read));
                assert!(
                    whole == resp,
                    "the composed request path must answer exactly like serve_read"
                );
                let hit = resp.file_ids().is_some_and(|ids| !ids.is_empty());
                match read {
                    Request::Point { .. } => probe.points += 1,
                    Request::Range { .. } => {
                        probe.ranges += 1;
                        probe.range_results += resp.file_ids().map_or(0, |v| v.len() as u64);
                    }
                    Request::TopK { .. } => probe.topks += 1,
                    _ => {}
                }
                for i in 0..served.n_shards() {
                    probe_read(&mut t, served.shard(i), read, hit, &mut probe);
                }
            }
        }
    }
    for (_, store) in &mut mirror {
        store.sync().expect("mirror WAL sync");
    }
    let io_run = io.snapshot().since(&io0);
    assert_mirror_matches(&mirror, &served, "after the replay");
    checks::check_server(&served, "traced server");
    checks::check_server(&plain, "untraced server");
    let store_bytes = host::dir_bytes(&mirror_dir);

    // Recovery of the mirror's stores.
    let expected: Vec<_> = mirror.iter().map(|(s, _)| s.current_files()).collect();
    drop(mirror);
    t.set_request(SETUP);
    for (i, files) in expected.iter().enumerate() {
        let (sys, _, _) = t.span("persist.recover", |_| {
            PersistentStore::open_with(Arc::clone(&vfs), &shard_dir(&mirror_dir, i))
                .expect("mirror recovers")
        });
        assert!(
            &sys.current_files() == files,
            "recovered mirror shard {i} differs from the state before shutdown"
        );
    }

    // Socket round trip against in-process serve_read on the same reads.
    let reads: Vec<Request> = replay
        .iter()
        .filter(|r| r.is_read())
        .take(NET_SAMPLE)
        .cloned()
        .collect();
    let in_process: Vec<f64> = reads
        .iter()
        .map(|r| {
            let t = crate::now();
            black_box(plain.serve_read(r));
            crate::nanos_since(t) as f64 / 1e3
        })
        .collect();
    let conns = Conns::default();
    let handle = NetServer::spawn(plain, NetServerConfig::default()).expect("spawn net server");
    let socket = client::ping_pong(&conns, handle.tcp_addr().expect("tcp listener"), &reads)
        .expect("socket round trips");
    let (plain, _) = handle.shutdown().expect("graceful shutdown");
    drop(plain);
    values.set(
        "net.overhead_us",
        median(&socket) - median(&in_process),
        socket.len() as u64,
    );
    values.set("net.resp_bytes", mean(&resp_bytes), resp_bytes.len() as u64);

    summarize(&t, &mut values, untraced_ns);

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    values.set(
        "tree.filters_probed_per_point",
        ratio(probe.filters_probed, probe.points),
        probe.points,
    );
    values.set(
        "tree.units_per_point",
        ratio(probe.units_per_point, probe.points),
        probe.points,
    );
    values.set(
        "tree.useful_unit_ratio",
        ratio(probe.point_hits, probe.units_per_point),
        probe.units_per_point,
    );
    values.set(
        "tree.units_per_range",
        ratio(probe.units_per_range, probe.ranges),
        probe.ranges,
    );
    values.set(
        "unit.records_per_result",
        ratio(probe.records, probe.range_results),
        probe.range_results,
    );
    values.set(
        "unit.topk_units_visited",
        ratio(probe.topk_units, probe.topks),
        probe.topks,
    );
    values.set(
        "persist.fsyncs_per_1k",
        1e3 * ratio(io_run.wal_syncs + io_run.image_syncs, changes),
        changes,
    );
    values.set(
        "persist.wal_bytes_per_change",
        ratio(io_run.wal_bytes, changes),
        changes,
    );
    values.set(
        "persist.write_amp",
        ratio(io_run.wal_bytes + io_run.image_bytes, io_run.wal_bytes),
        changes,
    );
    values.set("persist.compactions_delta", deltas as f64, changes);
    values.set("persist.compactions_full", fulls as f64, changes);
    values.set("persist.store_bytes", store_bytes as f64, 1);

    let diagnostics = vec![
        ("workload", spec.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("stream_digest", format!("{:016x}", stream.digest)),
        ("nproc", host::nproc().to_string()),
        ("git_rev", host::git_rev(&opts.root)),
        ("replayed_requests", replay.len().to_string()),
        ("journaled_changes", changes.to_string()),
        (
            "io",
            format!(
                "wal {} B / {} syncs, images {} B / {} syncs",
                io_run.wal_bytes, io_run.wal_syncs, io_run.image_bytes, io_run.image_syncs
            ),
        ),
        (
            "out_of_scope",
            "lock wait and stage timers inside the server are not traced".into(),
        ),
    ];
    let _ = std::fs::remove_dir_all(work);
    Outcome {
        kind: Kind::Layer,
        attempted: replay.len() as u64,
        failed,
        values,
        diagnostics,
    }
}

/// Span-derived metrics.
fn summarize(t: &Tracer, values: &mut Values, untraced_ns: f64) {
    let p50 = |name: &str| {
        let d = t.durations_us(name);
        (median(&d), d.len() as u64)
    };
    let per_req = |name: &str| {
        let d = t.per_request_us(name);
        (median(&d), d.len() as u64)
    };
    for (metric, (v, n)) in [
        ("service.decode_us", p50("service.decode")),
        ("service.encode_us", p50("service.encode")),
        ("service.merge_us", p50("service.merge")),
        ("service.apply_us", p50("service.apply")),
        ("smartstore.apply_us", p50("smartstore.apply")),
        ("persist.append_us_p50", p50("persist.append")),
        ("tree.route_point_us", per_req("tree.route_point")),
        ("tree.route_range_us", per_req("tree.route_range")),
        ("unit.range_scan_us", per_req("unit.range_scan")),
        ("tree.route_topk_us", per_req("tree.route_topk")),
        ("unit.topk_scan_us", per_req("unit.topk_scan")),
        ("smartstore.point_hit_us", per_req("smartstore.point_hit")),
        ("smartstore.point_miss_us", per_req("smartstore.point_miss")),
    ] {
        values.set(metric, v, n);
    }
    let appends = t.durations_us("persist.append");
    values.set(
        "persist.append_us_p99",
        quantile(&appends, 0.99),
        appends.len() as u64,
    );
    let compacts = t.durations_us("persist.compact");
    values.set(
        "persist.compact_ms",
        median(&compacts) / 1e3,
        compacts.len() as u64,
    );
    let recover = t.durations_us("persist.recover");
    values.set(
        "persist.recover_ms",
        recover.iter().sum::<f64>() / 1e3,
        recover.len() as u64,
    );

    // Fan-out: serve_read minus its slowest shard, per read.
    let mut by_req: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in t.spans() {
        match s.name {
            "service.serve_read" => by_req.entry(s.request).or_default().0 = s.dur_ns(),
            "service.query_shard" => {
                let e = by_req.entry(s.request).or_default();
                e.1 = e.1.max(s.dur_ns());
            }
            _ => {}
        }
    }
    let fanout: Vec<f64> = by_req
        .values()
        .filter(|(whole, _)| *whole > 0)
        .map(|&(whole, slowest)| (whole as f64 - slowest as f64) / 1e3)
        .collect();
    values.set("service.fanout_us", median(&fanout), fanout.len() as u64);

    // Coverage and overhead of the request-path spans.
    let self_ns = t.self_times_ns();
    let covered: u64 = t
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| REQUEST_LAYERS.contains(&s.name))
        .map(|(_, &ns)| ns)
        .sum();
    let traced: u64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns())
        .sum();
    let n_req = t.spans().iter().filter(|s| s.name == "request").count() as u64;
    values.set("trace.coverage", covered as f64 / untraced_ns, n_req);
    values.set(
        "trace.overhead_pct",
        100.0 * (traced as f64 - untraced_ns) / untraced_ns,
        n_req,
    );
}
