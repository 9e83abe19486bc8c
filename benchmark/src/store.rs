//! `store_serve`, `store_ingest`, `store_rebuild`: trace replay through
//! `run_store_bench` under the monolithic apply path and under the epoch
//! scheduler.
//!
//! The traces are open-loop in *virtual* time (ops arrive at 10 000 per
//! virtual second whatever the store does) and are replayed as fast as the
//! host allows; the wall-clock metrics are host time per trace op, the
//! `store.virtual.*` metrics are the modelled store's latencies and repeat
//! exactly for a fixed seed.
//!
//! The per-layer numbers come from a mirror of the replay: this file's own
//! single-threaded loop makes the same public calls over the same trace
//! (`LoadGen::op`, `pump_repairs`, `payload_for`, `encode_payload`,
//! `put_encoded`, `get`, `kill_racks`, `OpLog::log_batch`) with a span
//! around each, and must end in a report equal to `run_store_bench`'s,
//! field for field, and in the same op-log bytes.

use crate::spans::Recorder;
use crate::{ns_per_call, stats, timed, Outcome, RunCfg};
use mlec_runner::seed_stream::fnv1a;
use mlec_runner::SeedStream;
use mlec_store::oplog::{OpLog, OpRecord};
use mlec_store::{
    payload_for, run_store_bench, BackendChoice, BenchSpec, ChunkBackend, ChunkCache, KillSpec,
    Lane, LatencyHistogram, LoadGen, LoadSpec, MemBackend, MlecStore, OpKind, PhaseSummary,
    ShardedArbiter, StoreBenchReport, StoreConfig, StoreError,
};
use mlec_topology::objectmap::ObjectMapper;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Virtual arrival rate. The CLI default of 50 000/s saturates the small
/// deployment, which would make virtual latency grow with trace length.
const OPS_PER_VIRTUAL_SEC: u64 = 10_000;

/// The replay inputs of one workload.
fn spec_for(cfg: &RunCfg) -> BenchSpec {
    // (objects, ops, kill at op): the canonical get-dominated mix keeps a
    // working set of 8x the chunk cache.
    let (objects, ops, kill_at) = if cfg.quick {
        (256, 8_000, 900)
    } else {
        (4096, 60_000, 18_000)
    };
    let mut spec = BenchSpec {
        store: StoreConfig::small_test(),
        load: LoadSpec {
            ops,
            objects,
            zipf_s: 1.0,
            put_pct: 10,
            delete_pct: 0,
            ops_per_sec: OPS_PER_VIRTUAL_SEC,
        },
        kill: None,
        threads: 1,
        shards: 0,
        batch: 1024,
        verify_every: 64,
        seed: cfg.seed,
        backend: BackendChoice::Mem,
        oplog: None,
        trace_text: None,
        timing: false,
    };
    match cfg.workload.as_str() {
        "store_ingest" => {
            // Same layers used the other way: 256 KiB objects, puts only.
            spec.store.chunk_bytes = 32 * 1024;
            spec.load.put_pct = 100;
            (spec.load.objects, spec.load.ops) = if cfg.quick { (32, 100) } else { (256, 2_000) };
        }
        "store_rebuild" => {
            // The serving trace with one whole rack killed 30 % in.
            spec.kill = Some(KillSpec {
                at_op: kill_at,
                racks: 1,
                disks: 0,
            });
        }
        _ => {}
    }
    spec
}

/// The set-up share of a `run_store_bench` call: store construction, the
/// pre-load of every object and the final verification sweep, which the
/// API runs inside the same call as the replay. One op, no failure.
fn setup_spec(spec: &BenchSpec) -> BenchSpec {
    let mut s = spec.clone();
    s.load.ops = 1;
    s.kill = None;
    s.oplog = None;
    s
}

/// An apply engine of `run_store_bench`, as its `(shards, threads)`.
type Engine = (usize, usize);
/// The monolithic reference path, every op in trace order.
const SERIAL: Engine = (0, 1);
/// The epoch scheduler as a one-shard, one-thread schedule: the path
/// ROADMAP 3a wants to be the only one, measured without any thread in it.
const EPOCH: Engine = (1, 1);
/// The epoch scheduler on two rack shards with two prepare threads.
const SHARDED: Engine = (2, 2);

fn file_hash(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|bytes| fnv1a(&bytes))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What a timed replay yields for the checks.
struct Replay {
    seconds: f64,
    report: StoreBenchReport,
    oplog_hash: u64,
}

fn replay(spec: &BenchSpec, engine: Engine, oplog: &Path) -> Result<Replay, String> {
    let mut spec = spec.clone();
    (spec.shards, spec.threads) = engine;
    spec.oplog = Some(oplog.to_path_buf());
    let (seconds, report) = timed(|| run_store_bench(&spec));
    Ok(Replay {
        seconds,
        report: report.map_err(|e| e.to_string())?,
        oplog_hash: file_hash(oplog)?,
    })
}

/// Count a replay's operations and compare it with the reference replay.
fn account(out: &mut Outcome, run: &Replay, reference: &Replay, what: &str) {
    let r = &run.report;
    out.ops(r.ops, r.failed_gets + r.unrecoverable_stripes);
    out.check(
        r.verified_final > 0,
        "the final sweep verified every live object",
    );
    out.check(
        run.report == reference.report,
        &format!("{what}: report (counts and virtual times) equals the first serial replay's"),
    );
    out.check(
        run.oplog_hash == reference.oplog_hash,
        &format!("{what}: op log bytes equal the first serial replay's"),
    );
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let spec = spec_for(cfg);
    let scratch = cfg.scratch_dir().map_err(|e| e.to_string())?;
    let result = run_in(cfg, &spec, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(cfg: &RunCfg, spec: &BenchSpec, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oplog = scratch.join("oplog.jsonl");
    let ops = spec.load.ops as f64;

    let setup_only = setup_spec(spec);
    let setup = cfg.measure(cfg.setup_seconds(), || {
        let (t, report) = timed(|| run_store_bench(&setup_only));
        report.map(|_| t).map_err(|e| e.to_string())
    })?;
    let setup_s = stats::median(&setup);

    // One block per engine. The first serial replay (the block's warm-up)
    // is the reference every later replay must reproduce.
    let mut reference: Option<Replay> = None;
    let mut block = |engine: Engine, out: &mut Outcome| {
        cfg.measure(cfg.seconds / 2.0, || {
            let run = replay(spec, engine, &oplog)?;
            let seconds = run.seconds;
            match &reference {
                Some(reference) => account(out, &run, reference, "replay"),
                None => reference = Some(run),
            }
            Ok(ops / (seconds - setup_s))
        })
    };
    let serial = block(SERIAL, &mut out)?;
    let epoch = if cfg.trace {
        vec![]
    } else {
        block(EPOCH, &mut out)?
    };
    let reference = reference.expect("the serial block ran");
    if spec.kill.is_some() {
        let r = &reference.report;
        out.check(
            ["steady", "rebuild", "recovered"]
                .iter()
                .all(|p| r.phase(p).is_some_and(|s| s.count > 0)),
            "all three phases saw ops",
        );
        out.check(r.degraded_reads > 0, "reads hit damaged stripes");
        out.check(r.rebuild_done_us.is_some(), "the rebuild finished");
    }

    if cfg.trace {
        out.set_median("store.replay_ops_per_s", &serial);
        layer_run(cfg, spec, scratch, &reference, setup_s, &mut out)?;
        return Ok(out);
    }
    out.set_median("work_per_s", &serial);
    out.set_median("alt_work_per_s", &epoch);
    out.set_median("setup_s", &setup);
    Ok(out)
}

fn phase_of(kill_time_us: Option<u64>, done_at: Option<u64>, at_us: u64) -> &'static str {
    match (kill_time_us, done_at) {
        (None, _) => "steady",
        (Some(_), Some(done)) if done <= at_us => "recovered",
        _ => "rebuild",
    }
}

/// The mirror replay: the calls `run_store_bench` makes for the serial
/// engine, made from here one op at a time, each inside a span. Returns
/// the report assembled from the same public accessors.
fn mirror_replay(
    spec: &BenchSpec,
    oplog_path: &Path,
    rec: &mut Recorder,
) -> Result<StoreBenchReport, StoreError> {
    rec.enter("store.setup");
    let mut store = MlecStore::new(spec.store, |_| Ok(MemBackend::new()))?;
    let pay_stream = SeedStream::new(spec.seed, "store/payload");
    let gen = LoadGen::synthetic(spec.load, SeedStream::new(spec.seed, "store/trace"))?;
    let plen = store.config().payload_bytes();
    for obj in 0..spec.load.objects {
        let stripe = store.encode_payload(&payload_for(&pay_stream, obj, 0, plen))?;
        store.preload_encoded(obj, &stripe)?;
    }
    let mut oplog = OpLog::create(oplog_path)?;
    rec.exit();

    let overhead = store.config().overhead_us;
    let mut versions: BTreeMap<u64, u64> = (0..spec.load.objects).map(|o| (o, 0)).collect();
    let mut hists: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    let mut records: Vec<OpRecord> = Vec::with_capacity(spec.batch);
    let (mut puts, mut gets, mut deletes, mut misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut failed_gets, mut verified_inline) = (0u64, 0u64);
    let mut kill_time_us = None;
    let mut lost_chunks = 0u64;

    for index in 0..gen.len() {
        rec.enter("op");
        let op = rec.span("store.loadgen", || gen.op(index));
        if let Some(kill) = spec.kill.filter(|k| k.at_op == index) {
            lost_chunks = rec.span("store.kill", || store.kill_racks(kill.racks, op.at_us));
            kill_time_us = Some(op.at_us);
        }
        rec.span("store.repair.pump", || store.pump_repairs(op.at_us));
        let phase = phase_of(kill_time_us, store.repair().done_at(), op.at_us);
        let (latency_us, degraded, chunks_read) = match op.kind {
            OpKind::Put => {
                puts += 1;
                let version = versions.get(&op.object).map_or(0, |v| v + 1);
                versions.insert(op.object, version);
                let payload = rec.span("store.prepare.payload", || {
                    payload_for(&pay_stream, op.object, version, plen)
                });
                let stripe = rec.span("store.prepare.encode", || store.encode_payload(&payload))?;
                let put = rec.span("store.apply.put", || {
                    store.put_encoded(op.object, &stripe, op.at_us)
                })?;
                rec.count("store.user_bytes_put", plen as u64);
                (put.latency_us, false, 0)
            }
            OpKind::Get => {
                gets += 1;
                let sampled = spec.verify_every > 0 && index % spec.verify_every == 0;
                let expected = versions.get(&op.object).filter(|_| sampled).map(|&v| {
                    rec.span("store.prepare.payload", || {
                        payload_for(&pay_stream, op.object, v, plen)
                    })
                });
                rec.enter("store.apply.get");
                let got = store.get(op.object, op.at_us);
                rec.exit_as(
                    matches!(&got, Ok(g) if g.degraded).then_some("store.apply.degraded_get"),
                );
                match got {
                    Ok(got) => {
                        if let Some(expected) = expected {
                            if got.payload != expected {
                                return Err(StoreError::CorruptPayload(op.object));
                            }
                            verified_inline += 1;
                        }
                        rec.count("store.user_bytes_got", plen as u64);
                        rec.count("store.degraded_gets", u64::from(got.degraded));
                        rec.count("store.extra_chunks_read", got.chunks_read);
                        (got.latency_us, got.degraded, got.chunks_read)
                    }
                    Err(StoreError::UnknownObject(_)) => {
                        misses += 1;
                        (overhead, false, 0)
                    }
                    Err(StoreError::Unrecoverable { .. }) => {
                        failed_gets += 1;
                        (overhead, true, 0)
                    }
                    Err(other) => return Err(other),
                }
            }
            OpKind::Delete => {
                deletes += 1;
                versions.remove(&op.object);
                match rec.span("store.apply.delete", || store.delete(op.object, op.at_us)) {
                    Ok(latency) => (latency, false, 0),
                    Err(StoreError::UnknownObject(_)) => {
                        misses += 1;
                        (overhead, false, 0)
                    }
                    Err(other) => return Err(other),
                }
            }
        };
        rec.span("store.histogram", || {
            hists.entry(phase).or_default().record(latency_us);
        });
        records.push(OpRecord {
            op: op.index,
            at_us: op.at_us,
            kind: op.kind,
            object: op.object,
            latency_us,
            degraded,
            chunks_read,
            phase,
        });
        if records.len() == spec.batch || index + 1 == gen.len() {
            rec.span("store.oplog", || oplog.log_batch(&records, 1))?;
            records.clear();
        }
        rec.exit();
    }

    rec.enter("store.teardown");
    store.pump_repairs(u64::MAX);
    let end_of_time = gen
        .len()
        .saturating_mul(1_000_000 / spec.load.ops_per_sec.max(1))
        .max(store.repair().done_at().unwrap_or(0))
        + 1;
    let mut verified_final = 0u64;
    for (&obj, &version) in &versions {
        if store.get(obj, end_of_time)?.payload != payload_for(&pay_stream, obj, version, plen) {
            return Err(StoreError::CorruptPayload(obj));
        }
        verified_final += 1;
    }
    let oplog_records = oplog.finish()?;
    rec.exit();

    let phases = ["steady", "rebuild", "recovered"]
        .into_iter()
        .filter_map(|phase| {
            hists.get(phase).map(|h| PhaseSummary {
                phase,
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.quantile(0.5),
                p99_us: h.quantile(0.99),
                p999_us: h.quantile(0.999),
                max_us: h.max(),
            })
        })
        .collect();
    let (foreground_ios, foreground_bytes) = store.arbiter().foreground_totals();
    let (repair_ios, repair_bytes) = store.arbiter().repair_totals();
    let (repaired_local_chunks, repaired_network_chunks) = store.repaired_chunks();
    Ok(StoreBenchReport {
        ops: gen.len(),
        puts,
        gets,
        deletes,
        misses,
        degraded_reads: store.degraded_reads(),
        failed_gets,
        verified_inline,
        verified_final,
        phases,
        kill_time_us,
        lost_chunks,
        rebuild_done_us: store.repair().done_at().filter(|_| kill_time_us.is_some()),
        repaired_stripes: store.repair().repaired_stripes,
        skipped_stripes: store.repair().skipped_stripes,
        unrecoverable_stripes: store.repair().unrecoverable_stripes,
        repaired_local_chunks,
        repaired_network_chunks,
        cache_hit_rate: store.cache_hit_rate(),
        foreground_ios,
        foreground_bytes,
        repair_ios,
        repair_bytes,
        oplog_records,
        wall_secs: None,
    })
}

/// The stand-alone loops: one layer's public functions on their own, at
/// the workload's sizes and key stream.
fn standalone_loops(
    cfg: &RunCfg,
    spec: &BenchSpec,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let calls = if cfg.quick { 2_000 } else { 50_000 };
    let store_cfg = spec.store;
    let code = store_cfg.code;
    let gen = LoadGen::synthetic(spec.load, SeedStream::new(cfg.seed, "store/trace"))
        .map_err(|e| e.to_string())?;
    let objects: Vec<u64> = (0..calls as u64)
        .map(|i| gen.op(i % gen.len()).object)
        .collect();
    let chunk = vec![0xa5u8; store_cfg.chunk_bytes];

    let mapper = ObjectMapper::new(
        store_cfg.geometry,
        code,
        store_cfg.scheme,
        store_cfg.chunk_bytes as u64,
        store_cfg.placement_seed,
    );
    out.set(
        "topology.objectmap_ns_per_stripe",
        ns_per_call(calls, |i| {
            black_box(mapper.stripe_chunks(objects[i]));
        }),
    );

    // The cache at the store's total capacity, under the trace's own key
    // skew: a miss is followed by the insert the store would do.
    let mut cache = ChunkCache::new(store_cfg.cache_chunks);
    out.set(
        "store.cache.ns_per_access",
        ns_per_call(calls, |i| {
            let key = mlec_store::backend::chunk_key(objects[i], (i % 2) as u32, (i % 4) as u32);
            if cache.get(key).is_none() {
                cache.insert(key, &chunk);
            }
        }),
    );

    let mut backend = MemBackend::new();
    let key_of =
        |i: usize| mlec_store::backend::chunk_key(objects[i], (i % 3) as u32, (i % 6) as u32);
    out.set(
        "store.backend.mem_write_ns_per_chunk",
        ns_per_call(calls, |i| {
            backend
                .write_chunk(key_of(i), &chunk)
                .expect("memory writes cannot fail");
        }),
    );
    let mut buf = Vec::new();
    out.set(
        "store.backend.mem_read_ns_per_chunk",
        ns_per_call(calls, |i| {
            black_box(
                backend
                    .read_chunk(key_of(i), &mut buf)
                    .expect("memory reads cannot fail"),
            );
        }),
    );

    let mut arbiter = ShardedArbiter::new(&store_cfg.geometry, &store_cfg.sim, store_cfg.seek_us);
    let disks = store_cfg.geometry.total_disks();
    out.set(
        "store.arbiter.ns_per_io",
        ns_per_call(calls, |i| {
            let disk = (objects[i] * 31 + i as u64) as u32 % disks;
            black_box(arbiter.disk_io(
                disk,
                store_cfg.chunk_bytes,
                i as u64 * 100,
                Lane::Foreground,
            ));
        }),
    );

    let records: Vec<OpRecord> = (0..spec.batch as u64)
        .map(|i| OpRecord {
            op: i,
            at_us: i * 100,
            kind: OpKind::Get,
            object: objects[i as usize % objects.len()],
            latency_us: 50 + i,
            degraded: false,
            chunks_read: 0,
            phase: "steady",
        })
        .collect();
    let mut log = OpLog::create(&scratch.join("loop_oplog.jsonl")).map_err(|e| e.to_string())?;
    let per_batch = ns_per_call((calls / spec.batch).max(2), |_| {
        log.log_batch(&records, 1)
            .expect("the scratch directory is writable");
    });
    log.finish().map_err(|e| e.to_string())?;
    out.set("store.oplog.ns_per_record", per_batch / spec.batch as f64);

    let mut hist = LatencyHistogram::new();
    out.set(
        "store.histogram.ns_per_record",
        ns_per_call(calls, |i| {
            hist.record(50 + (objects[i] * 7 + i as u64) % 4000)
        }),
    );
    black_box(hist.count());
    Ok(())
}

/// Median and the highest supported percentile of one span name.
fn set_span_percentiles(
    out: &mut Outcome,
    rec: &Recorder,
    span: &str,
    p50: &str,
    tail: Option<&str>,
) {
    let ns = rec.durations_ns(span);
    out.set(p50, stats::percentile(&ns, 0.5));
    if let Some(tail) = tail {
        out.set(tail, stats::percentile(&ns, 0.99));
        let support = stats::highest_supported_percentile(&ns)
            .map_or("none".to_string(), |(label, v)| {
                format!("{label} = {v:.0} ns")
            });
        out.notes.push(format!(
            "  {span}: {} samples, highest percentile with 10 samples beyond it: {support}",
            ns.len()
        ));
    }
}

fn layer_run(
    cfg: &RunCfg,
    spec: &BenchSpec,
    scratch: &Path,
    reference: &Replay,
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let oplog = scratch.join("oplog.jsonl");
    let ops = spec.load.ops as f64;

    // The driver itself on two shards and two threads, one short block,
    // against the serial block `run_in` just measured.
    let serial_rate = out.value("store.replay_ops_per_s").expect("set by run_in");
    let serial_s = ops / serial_rate;
    let sharded = cfg.measure(0.0, || {
        let run = replay(spec, SHARDED, &oplog)?;
        account(out, &run, reference, "sharded replay");
        Ok(run.seconds - setup_s)
    })?;
    out.set(
        "store.replay_sharded_ops_per_s",
        ops / stats::median(&sharded),
    );
    out.set("store.epoch.speedup_s2", serial_s / stats::median(&sharded));

    // The mirror: untraced, traced, untraced.
    let mirror_log = scratch.join("mirror_oplog.jsonl");
    let mut mirror = |rec: &mut Recorder| -> Result<f64, String> {
        let (t, report) = timed(|| mirror_replay(spec, &mirror_log, rec));
        let report = report.map_err(|e| e.to_string())?;
        out.ops(report.ops, report.failed_gets);
        out.check(
            report == reference.report,
            "mirror replay's report equals run_store_bench's, field for field",
        );
        out.check(
            file_hash(&mirror_log)? == reference.oplog_hash,
            "mirror replay's op log equals run_store_bench's, byte for byte",
        );
        Ok(t)
    };
    let mut rec = Recorder::new(true);
    let before = mirror(&mut Recorder::new(false))?;
    let traced = mirror(&mut rec)?;
    let after = mirror(&mut Recorder::new(false))?;
    out.ledger_note(&rec, traced, (before + after) / 2.0);

    let layers = rec.layer_times();
    let self_s = |name: &str| layers.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let per_span = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.spans as f64)
    };
    let r = &reference.report;
    out.set("store.loadgen.ns_per_op", per_span("store.loadgen"));
    out.set(
        "store.prepare.payload_ns_per_put",
        per_span("store.prepare.payload"),
    );
    out.set(
        "store.prepare.encode_ns_per_put",
        per_span("store.prepare.encode"),
    );
    set_span_percentiles(
        out,
        &rec,
        "store.apply.put",
        "store.apply.put_ns",
        Some("store.apply.put_p99_ns"),
    );
    set_span_percentiles(
        out,
        &rec,
        "store.apply.get",
        "store.apply.get_ns",
        Some("store.apply.get_p99_ns"),
    );
    set_span_percentiles(
        out,
        &rec,
        "store.apply.degraded_get",
        "store.apply.degraded_get_ns",
        None,
    );
    let apply_s = [
        "store.apply.put",
        "store.apply.get",
        "store.apply.degraded_get",
        "store.apply.delete",
    ]
    .iter()
    .map(|n| self_s(n))
    .sum::<f64>();
    out.set("store.apply.busy_s", apply_s);
    // The op log's share of the replay, from its spans: a replay without the
    // log differs from one with it by less than two replays differ anyway.
    out.set("store.oplog.share", self_s("store.oplog") / serial_s);
    out.set("store.repair.pump_busy_s", self_s("store.repair.pump"));
    out.set("store.repair.stripes_repaired", r.repaired_stripes as f64);
    out.set("store.repair.bytes", r.repair_bytes as f64);
    out.set("store.cache.hit_rate", r.cache_hit_rate);
    out.set(
        "store.arbiter.foreground_ios_per_op",
        r.foreground_ios as f64 / ops,
    );
    let code = spec.store.code;
    out.set(
        "store.backend.bytes_per_user_byte",
        f64::from(code.network_width() * code.local_width()) / f64::from(code.kn * code.kl),
    );

    // What the driver costs on top of the calls it makes: its serial
    // replay time minus everything the mirror spent inside the layers
    // (the op spans' own self time is this file's loop, not the driver's).
    let in_layers: f64 = layers
        .iter()
        .filter(|(name, _)| !["op", "store.setup", "store.teardown"].contains(*name))
        .map(|(_, t)| t.self_ns as f64 / 1e9)
        .sum();
    out.set("store.driver.residual_s", serial_s - in_layers);
    out.set(
        "store.driver.residual_share",
        (serial_s - in_layers) / serial_s,
    );
    out.notes.push(format!(
        "  driver residual: run_store_bench serial replay {serial_s:.6} s - mirror layer busy {in_layers:.6} s = {:.6} s",
        serial_s - in_layers
    ));

    // Virtual-time readings: the modelled store, not the host.
    let p99 = |phase: &str| r.phase(phase).map_or(0.0, |p| p.p99_us as f64);
    out.set("store.virtual.steady_p99_us", p99("steady"));
    out.set("store.virtual.rebuild_p99_us", p99("rebuild"));
    out.set("store.virtual.degraded_reads", r.degraded_reads as f64);
    if let (Some(kill), Some(done)) = (r.kill_time_us, r.rebuild_done_us) {
        out.set("store.virtual.rebuild_s", (done - kill) as f64 / 1e6);
        out.set(
            "store.virtual.repair_bytes_per_lost_byte",
            r.repair_bytes as f64 / (r.lost_chunks as f64 * spec.store.chunk_bytes as f64),
        );
    }

    standalone_loops(cfg, spec, scratch, out)?;
    cfg.write_trace(&rec)
}
